selec * from part;
